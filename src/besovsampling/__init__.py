"""Wavelet Besov norms, sampling inequalities and irregular reconstruction.

Numerical companion to the classical questions: how much can a smooth
function concentrate away from a well-spread sampling set, and when do
irregular samples determine it?  The package computes homogeneous Besov
norms two independent ways, builds 1D/2D sampling sets with their covering
cells, measures the implicit constants in the trace/uncertainty inequalities,
and runs the Neumann-series reconstruction from traces.
"""

from .grid import (
    Grid1D,
    Grid2D,
    GridFunction,
    SpectrumFunction,
    default_grid_1d,
    default_grid_2d,
    fourier,
    inverse_fourier,
    lp_norm,
    smooth_lowpass,
    weighted_lp_norm,
)
from .wavelets import (
    WaveletBasis,
    WaveletCoefficients,
    analyze,
    build_basis,
    default_basis,
    dilate_coeffs,
    synthesize,
)
from .besov import (
    BesovParams,
    besov_norm_lp,
    besov_norm_via_analyze,
    besov_norm_wavelet,
    critical_norm,
    pw_membership,
)
from .geometry import (
    SamplingGeometry2D,
    SamplingSequence1D,
    build_geometry,
    check_conditions,
    cell_measures,
    random_sequence,
    regular_sequence,
)
from .inequalities import (
    SamplingReport,
    TraceValues,
    UncertaintyReport,
    heisenberg_product,
    intB_diagnostic,
    sampling_ratio,
    trace,
    uncertainty_check,
    uncertainty_deficiency,
)
from .reconstruct import (
    ReconstructionConfig,
    ReconstructionOperator,
    ReconstructionReport,
    bandlimited_split,
    build_operator,
    contraction_estimate,
    full_pipeline,
    interp_pl,
    neumann_reconstruct,
)
from .zoo import ZooSpec, calibration_zoo, make

__version__ = "0.1.0"
