"""skybps: numerical verification of BPS configurations of the gauged Skyrme model.

The package constructs target geometries carrying an isometric group action
and a moment map, builds explicit BPS solution families over discretized
coordinate patches, and certifies by quadrature and finite differences the
energy identities, topological degrees and residual equations that these
families satisfy.
"""

from .energy_degree import BPSParams, bps_coefficients
from .exterior import Metric3, StarMap, hodge_star
from .gaugefield import Configuration
from .grid import PatchGrid, build_patch, partial_derivative
from .lie_target import TargetGeometry

__all__ = [
    "BPSParams",
    "Configuration",
    "Metric3",
    "PatchGrid",
    "StarMap",
    "TargetGeometry",
    "bps_coefficients",
    "build_patch",
    "hodge_star",
    "partial_derivative",
]

__version__ = "0.1.0"
