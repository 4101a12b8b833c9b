"""Small-volume-fraction limit energies of the sharp-interface Ohta-Kawasaki
functional on the unit flat torus: periodic Green's functions, per-particle
local energies and optimal mass partitions, first- and second-order limit
functionals on point configurations, exact spectral energies of ball
configurations, and a Coulomb placement optimizer.
"""

__version__ = "0.3.0"

from .breakdown import EnergyBreakdown
from .errors import (CoincidentPoints, CutoffTooSmall, DiameterTooLarge,
                     IncommensurateCount, InadmissibleConfiguration, NoConvergence,
                     OklimError, OverlappingBalls, SingularPoint, UnequalMasses2D)
from .green import EwaldParameters, TorusPoint, green_eval, green_grad, regular_part, \
    regular_part_at_zero
from .limits import AdmissibilityReport, PointConfiguration, check_admissible, e0, f0_energy
from .local import (PartitionResult, concavity_coefficient, e2d, e3d_ball, envelope_2d,
                    f0, lipschitz_probe_envelope, splitting_threshold_3d)
from .optimize import OptimizationResult, lattice_candidate_energy, place
from .sharp import (BallConfiguration, diameter_estimate, rescale_to_original,
                    richardson_extrapolate, second_order_quotient, sharp_energy)

__all__ = [
    "AdmissibilityReport", "BallConfiguration", "CoincidentPoints", "CutoffTooSmall",
    "DiameterTooLarge", "EnergyBreakdown", "EwaldParameters", "IncommensurateCount",
    "InadmissibleConfiguration", "NoConvergence", "OklimError",
    "OptimizationResult", "OverlappingBalls", "PartitionResult", "PointConfiguration",
    "SingularPoint", "TorusPoint", "UnequalMasses2D", "check_admissible",
    "concavity_coefficient", "diameter_estimate", "e0", "e2d", "e3d_ball",
    "envelope_2d", "f0", "f0_energy", "green_eval", "green_grad",
    "lattice_candidate_energy", "lipschitz_probe_envelope", "place",
    "regular_part", "regular_part_at_zero", "rescale_to_original",
    "richardson_extrapolate", "second_order_quotient", "sharp_energy",
    "splitting_threshold_3d",
]
