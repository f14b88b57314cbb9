"""Worst-case NMSE geometry of proximal denoising for structured signals.

Submodules:

* :mod:`proxmse.signals`  - structured test signals (sparse, block-sparse,
  low-rank, weighted-sparse) and their geometric descriptors; each structure
  class owns the formulas of its norm.
* :mod:`proxmse.geometry` - distances to scaled subdifferentials, Monte
  Carlo and exact mean-squared-distance estimates, closed-form bounds.
* :mod:`proxmse.prox`     - proximal operators and norm-ball projections.
* :mod:`proxmse.denoise`  - NMSE-vs-sigma denoising experiments.
* :mod:`proxmse.lasso`    - constrained-LASSO measurement sweeps.
* :mod:`proxmse.cli`      - command-line front end.
"""

from . import denoise, geometry, lasso, prox, signals
from .errors import (
    BoundNotValidError,
    InvalidStructureError,
    NumericalError,
    RunQualityError,
)
from .geometry import (
    GeometryConstants,
    McConfig,
    MsdEstimate,
    dist_sq_scaled_subdiff,
    geometry_constants,
    lipschitz_upper_bound,
    msd_cone,
    msd_lambda,
    msd_lambda_curve,
    msd_lambda_exact_l1,
    optimal_lambda,
    project_scaled_subdiff,
    table1_bound,
    table1_threshold,
)
from .signals import (
    BlockSparseStructure,
    LowRankStructure,
    SignalInstance,
    SparseStructure,
    WeightedSparseStructure,
    make_block_sparse,
    make_low_rank,
    make_sparse,
    make_weighted_sparse,
)

__version__ = "0.1.0"
