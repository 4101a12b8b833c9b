"""Small-volume-fraction limit energies of the sharp-interface Ohta-Kawasaki
functional on the unit flat torus: periodic Green's functions, per-particle
local energies and optimal mass partitions, first- and second-order limit
functionals on point configurations, exact spectral energies of ball
configurations, and a Coulomb placement optimizer.
"""

__version__ = "0.7.0"

from .errors import (CoincidentPoints, CutoffTooSmall, DiameterTooLarge,
                     IncommensurateCount, InadmissibleConfiguration, NoConvergence,
                     OklimError, OverlappingBalls, SingularPoint, UnequalMasses2D)
from .green import EwaldParameters, green_eval, green_grad, regular_part, \
    regular_part_at_zero
from .limits import AdmissibilityReport, PointConfiguration, check_admissible, e0, f0_energy
from .local import (EnergyBreakdown, PartitionResult, concavity_coefficient, e2d, e3d_ball,
                    envelope, envelope_many, f0, splitting_threshold_3d)
from .optimize import OptimizationResult, lattice_candidate_energy, place
from .sharp import (BallConfiguration, richardson_extrapolate, second_order_quotient,
                    sharp_energy)

__all__ = [
    "AdmissibilityReport", "BallConfiguration", "CoincidentPoints", "CutoffTooSmall",
    "DiameterTooLarge", "EnergyBreakdown", "EwaldParameters", "IncommensurateCount",
    "InadmissibleConfiguration", "NoConvergence", "OklimError",
    "OptimizationResult", "OverlappingBalls", "PartitionResult", "PointConfiguration",
    "SingularPoint", "UnequalMasses2D", "check_admissible", "concavity_coefficient",
    "e0", "e2d", "e3d_ball", "envelope", "envelope_many", "f0", "f0_energy",
    "green_eval", "green_grad", "lattice_candidate_energy", "place",
    "regular_part", "regular_part_at_zero", "richardson_extrapolate",
    "second_order_quotient", "sharp_energy", "splitting_threshold_3d",
]
