"""Pass-based program optimizer: detection verdicts turned into rewrites.

See :mod:`repro.optimize.passes` for the pass framework and
:mod:`repro.optimize.unfold` for bounded-recursion unfolding.
"""

from .passes import (
    BoundednessPass,
    OptimizationPass,
    OptimizationResult,
    Optimizer,
    PassContext,
    RedundancyRemovalPass,
    Rewrite,
    SidednessPass,
    UnfoldingPass,
    default_passes,
    detection_passes,
    optimize_program,
    shared_optimizer,
)
from .unfold import (
    UnfoldedDefinition,
    apply_unfolding,
    evaluate_unfolded,
    unfold_bounded,
)

__all__ = [
    "BoundednessPass",
    "OptimizationPass",
    "OptimizationResult",
    "Optimizer",
    "PassContext",
    "RedundancyRemovalPass",
    "Rewrite",
    "SidednessPass",
    "UnfoldedDefinition",
    "UnfoldingPass",
    "apply_unfolding",
    "default_passes",
    "detection_passes",
    "evaluate_unfolded",
    "optimize_program",
    "shared_optimizer",
    "unfold_bounded",
]
