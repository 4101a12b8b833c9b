"""Exception types shared across the library, and its integer-argument check."""

import numbers


def check_integer(name, value, minimum):
    """``value`` as an int; ValueError naming ``name`` unless it is an integer >= minimum.

    A bool is not an integer here; numpy integers are.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


class OklimError(Exception):
    """Base class for all library errors."""


class SingularPoint(OklimError):
    """Green's function evaluated at (or too close to) a lattice point."""


class CoincidentPoints(OklimError):
    """Two particles closer than the coincidence guard; the energy is +inf."""


class UnequalMasses2D(OklimError):
    """A 2D interaction energy was requested for unequal masses."""


class InadmissibleConfiguration(OklimError):
    """Configuration is not an admissible limit object for the requested quantity."""


class OverlappingBalls(OklimError):
    """Two balls of a finite-scale configuration overlap on the torus."""


class DiameterTooLarge(OklimError):
    """A ball diameter exceeds 1/2, breaking the min-image decomposition."""


class CutoffTooSmall(OklimError):
    """Certified truncation tail exceeds the accuracy contract."""


class NoConvergence(OklimError):
    """No optimizer restart reached the gradient tolerance.

    Carries the best-effort result in the ``result`` attribute.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class IncommensurateCount(OklimError):
    """Particle count does not fit the requested lattice on the unit torus."""
