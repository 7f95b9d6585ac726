"""Exception hierarchy for the workbench.

Exceptions fall into three categories mirrored by the CLI exit codes:
configuration problems (exit 1), violated mathematical preconditions
(exit 2), and numeric tolerance failures (exit 3).
"""

from contextlib import contextmanager


class WorkbenchError(Exception):
    """Base class for all workbench errors."""

    exit_code = 1


class ConfigError(WorkbenchError):
    """Malformed configuration, input file, or CLI usage."""

    exit_code = 1


@contextmanager
def malformed_input(what: str):
    """Re-raise a parse error in the block as a one-line ConfigError."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"malformed {what}: {detail}") from exc


class NonUniformGrid(ConfigError):
    """Grid nodes are not uniformly spaced along an axis."""


class MissingArtifact(ConfigError):
    """A manifest references an artifact file that does not exist."""


class MathPreconditionError(WorkbenchError):
    """An exact-arithmetic precondition does not hold."""

    exit_code = 2


class DomainError(MathPreconditionError):
    """Operand outside the domain of a formal series operation."""


class NotAUnit(MathPreconditionError):
    """Series inversion requires a nonzero constant term and no logs."""


class LogDegreeOverflow(MathPreconditionError):
    """A product term would exceed the maximal stored log degree."""


class NotMUM(MathPreconditionError):
    """Indicial polynomial at z = 0 is not a quadruple root at 0."""


class ResonanceFailure(MathPreconditionError):
    """A Frobenius recurrence step is not uniquely solvable."""


class NonMeromorphic(MathPreconditionError):
    """The triple-coupling ODE has no rational-function solution."""


class IntegralityViolation(MathPreconditionError):
    """An instanton number came out non-integral."""


class NormalizationMissing(MathPreconditionError):
    """No symplectic normalization of the period basis is available."""


class UnstableRange(MathPreconditionError):
    """Requested open-string residual at an unstable (g, h)."""


class MissingField(MathPreconditionError):
    """A residual evaluation needs a field the grid does not carry."""


class BoundaryPoint(MathPreconditionError):
    """Finite-difference stencil leaves the sampled grid."""


class OutsideDisk(MathPreconditionError):
    """Evaluation point outside the configured convergence disk."""


class NumericToleranceError(WorkbenchError):
    """A floating-point consistency check exceeded its tolerance."""

    exit_code = 3


class PrecisionLoss(NumericToleranceError):
    """Finite-difference check disagrees with the algebraic value.

    Carries a suggested smaller step in ``suggested_h``.
    """

    def __init__(self, message, suggested_h=None):
        super().__init__(message)
        self.suggested_h = suggested_h


class SignViolation(NumericToleranceError):
    """A Hodge-Riemann sign law failed beyond tolerance."""


class PropagatorMismatch(NumericToleranceError):
    """Declared propagator does not satisfy its dbar-equation."""


class NoConvergence(NumericToleranceError):
    """Field does not decay toward the holomorphic-limit regime."""


class ResidualToleranceError(NumericToleranceError):
    """An integrated free energy failed its own residual check."""
