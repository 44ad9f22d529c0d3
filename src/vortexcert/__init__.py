"""Certified relative equilibria of identical point vortices on the sphere.

Submodules cover rigorous interval arithmetic, the vortex equations and
their ring-symmetric reduction, validated branch continuation, the
energy-momentum stability test, ground-truth fixtures and a command-line
pipeline.
"""

__version__ = "0.1.0"

from .intervals import ComplexInterval, Interval, IntervalArray
from .model import FullConfiguration, RingSystem, VortexParameters
from .continuation import (
    AugmentedPoint,
    BranchCertificate,
    NKBounds,
    continue_branch,
    nk_validate_point,
    nk_validate_segment,
)
from .stability import StabilityVerdict, stability_over_segment, stability_test

__all__ = [
    "__version__",
    "Interval",
    "ComplexInterval",
    "IntervalArray",
    "FullConfiguration",
    "RingSystem",
    "VortexParameters",
    "AugmentedPoint",
    "NKBounds",
    "BranchCertificate",
    "continue_branch",
    "nk_validate_point",
    "nk_validate_segment",
    "StabilityVerdict",
    "stability_test",
    "stability_over_segment",
]
