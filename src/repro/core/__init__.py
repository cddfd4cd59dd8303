"""Compressive-sensing core: the paper's primary technical contribution.

Public surface:

- bases:           :func:`dct_basis`, :func:`dft_basis`, :func:`haar_basis`,
                   :func:`identity_basis`, :func:`pca_basis`
- sampling:        :class:`MeasurementPlan`, :func:`random_locations`,
                   :func:`gaussian_sensing_matrix`
- solvers:         :func:`omp` (eq. 13), :func:`l1_solve` (eqs. 9-10),
                   :func:`ols_solve` (eq. 11), :func:`gls_solve` (eq. 12),
                   :func:`chs` (Fig. 6)
- high level:      :func:`reconstruct`
- analysis:        :func:`error_decomposition`, :func:`select_optimal_k`,
                   :func:`measurements_for_sparsity`, :mod:`metrics`
"""

from . import metrics
from .basis import (
    BASIS_NAMES,
    basis_by_name,
    dct2_basis,
    dct_basis,
    dft_basis,
    haar_basis,
    identity_basis,
    pca_basis,
)
from .greedy import GreedyResult, cosamp, iht
from .incremental import IncrementalQR, top_k_indices
from .operators import (
    BasisOperator,
    DCT2Operator,
    DCTOperator,
    dct_sampled_rows,
)
from .registry import (
    clear_registry,
    has_operator,
    registry_info,
    shared_basis,
    shared_dct2_basis,
    shared_dct2_operator,
    shared_operator,
)
from .spatiotemporal import (
    SpaceTimeResult,
    SpaceTimeSample,
    reconstruct_spacetime,
    spacetime_index,
)
from .chs import (
    CHSResult,
    chs,
    linear_interpolate,
    nearest_interpolate,
    zero_fill_interpolate,
)
from .l1 import L1Result, l1_solve, l1_solve_noisy
from .least_squares import condition_number, gls_solve, ols_solve, whiten
from .omp import OMPResult, omp
from .reconstruction import SOLVERS, Reconstruction, reconstruct
from .robust import ROBUST_MODES, RobustFit, robust_reconstruct, robust_scales
from .sampling import (
    MeasurementPlan,
    bernoulli_sensing_matrix,
    gaussian_sensing_matrix,
    grid_locations,
    random_locations,
    selection_matrix,
    subsample_rows,
    weighted_locations,
)
from .sparsity import (
    ErrorBudget,
    best_k_term_error,
    energy_sparsity,
    error_decomposition,
    measurements_for_sparsity,
    select_optimal_k,
)

__all__ = [
    "metrics",
    "BASIS_NAMES",
    "basis_by_name",
    "dct2_basis",
    "dct_basis",
    "dft_basis",
    "haar_basis",
    "identity_basis",
    "pca_basis",
    "GreedyResult",
    "cosamp",
    "iht",
    "IncrementalQR",
    "top_k_indices",
    "BasisOperator",
    "DCT2Operator",
    "DCTOperator",
    "dct_sampled_rows",
    "clear_registry",
    "has_operator",
    "registry_info",
    "shared_basis",
    "shared_dct2_basis",
    "shared_dct2_operator",
    "shared_operator",
    "SpaceTimeResult",
    "SpaceTimeSample",
    "reconstruct_spacetime",
    "spacetime_index",
    "CHSResult",
    "chs",
    "linear_interpolate",
    "nearest_interpolate",
    "zero_fill_interpolate",
    "L1Result",
    "l1_solve",
    "l1_solve_noisy",
    "condition_number",
    "gls_solve",
    "ols_solve",
    "whiten",
    "OMPResult",
    "omp",
    "SOLVERS",
    "Reconstruction",
    "reconstruct",
    "ROBUST_MODES",
    "RobustFit",
    "robust_reconstruct",
    "robust_scales",
    "MeasurementPlan",
    "bernoulli_sensing_matrix",
    "gaussian_sensing_matrix",
    "grid_locations",
    "random_locations",
    "selection_matrix",
    "subsample_rows",
    "weighted_locations",
    "ErrorBudget",
    "best_k_term_error",
    "energy_sparsity",
    "error_decomposition",
    "measurements_for_sparsity",
    "select_optimal_k",
]
