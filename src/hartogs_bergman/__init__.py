"""Closed-form Bergman kernels of generalized Hartogs triangles.

Evaluates the kernels of the fat (exponent k) and thin (exponent 1/k)
Hartogs triangles and their reference domains, and carries the machinery
used to verify every checkable claim about them: exact coefficient
polynomial identities, an orthonormal-series oracle, Monte Carlo checks of
the reproducing property, the proper-map transformation identities, kernel
zero scans, and diagonal boundary asymptotics.
"""

__version__ = "0.1.0"

from .analysis import (
    AsymptoticReport,
    DeltaRateReport,
    NonvanishingReport,
    RamadanovTable,
    ZeroScan,
    ZeroWitness,
    delta_rate,
    diagonal_ratio,
    lqk_witness,
    ramadanov_table,
    stable_quadratic_roots,
    thin_nonvanishing,
    zero_locus_scan,
)
from .domain import (
    BoundaryPath,
    DomainError,
    DomainKind,
    DomainSpec,
    PathKind,
    Point2C,
    boundary_distance,
    boundary_paths,
    contains,
    sample_chunks,
    sample_uniform,
    sampling_acceptance,
)
from .kernels import (
    THIN_VARIANT_ALTERNATE,
    THIN_VARIANT_DEFAULT,
    KernelArgs,
    KernelValue,
    SingularEvaluation,
    ThinVariant,
    bergman_fat,
    bergman_reference,
    bergman_thin,
    diagonal,
    kernel,
)
from .oracle import (
    McEstimate,
    Monomial,
    MonomialIndex,
    NonconvergentTruncation,
    ReproducingReport,
    SeriesTruncation,
    basis_norms,
    inner_product_mc,
    inner_products_mc,
    kernel_series,
    parse_function,
    reproducing_check,
    series_row_sums,
)
from .polynomials import (
    IdentityReport,
    IntPoly,
    NumeratorCoeffs,
    lin_coeff,
    numerator_coeffs,
    ones_poly,
    quad_coeff,
    verify_coefficient_identities,
)
from .transforms import (
    BranchInverse,
    MapKind,
    ProperMap,
    apply,
    bell_residual,
    biholo_residual,
    branch_inverses,
    power_map,
    shear,
    shear_inv,
    shear_iter,
    shear_iter_inv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
