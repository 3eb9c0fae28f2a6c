"""Exception types shared across the package.

Every failure mode callers are expected to handle has its own class so the
CLI can map them to exit codes and machine-readable diagnostics.
"""


class FdbtError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(FdbtError):
    """Matrix dimensions are inconsistent with the operation's contract."""


class SingularSylvester(FdbtError):
    """The Lyapunov/Sylvester operator is singular: some λ_i + conj(λ_j) ≈ 0."""


class BranchCutViolation(FdbtError):
    """Principal square root / logarithm undefined: spectrum touches (−∞, 0]."""


class ConvergenceFailure(FdbtError):
    """An iterative kernel (eigensolver) did not converge."""


class PoleOnGrid(FdbtError):
    """A requested evaluation frequency coincides with a system pole."""

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class SingularSubstitution(FdbtError):
    """The linear-fractional substitution is not realizable: aI − cA singular."""


class DegenerateMap(FdbtError):
    """The linear-fractional map is constant: a·d − b·c ≈ 0."""


class SingularShift(FdbtError):
    """A shifted resolvent (εI + jϖI − A or jϖI − A) is numerically singular."""


class NotHurwitz(FdbtError):
    """The operation requires a Hurwitz (asymptotically stable) matrix."""


class OrderOutOfRange(FdbtError):
    """Requested reduced order is outside the supported range."""


class SingularReconstruction(FdbtError):
    """The reduced-model reconstruction hit a singular matrix."""


class SingularResidualization(FdbtError):
    """Residualization shift ρI − A₂₂ is singular."""


class IndefiniteGramian(FdbtError):
    """A Gramian to be balanced has a clearly negative eigenvalue.

    Raised by linalg.balance_gramians, the one indefiniteness test; in
    practice by fgbt's band-limited pair, which deep cancellation can drive
    indefinite.
    """


class InvalidParameters(FdbtError):
    """Configuration values violate a documented constraint."""
