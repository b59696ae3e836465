"""Holder-regularity bounds for quasiconformal maps and elliptic coefficients.

The package computes, from an evaluable complex-distortion coefficient (and
optionally the map itself), a lower bound on the Holder exponent that
combines the circular distortion average with the isoperimetric roundness
of image disks, runs extremizer diagnostics that quantify how close a field
is to the worst case, and bridges the same machinery to divergence-form
elliptic coefficient matrices of determinant 1.
"""

__version__ = "0.1.0"

from .bounds import (
    GronwallVerdict,
    MoriReport,
    RegularityReport,
    distortion_constant,
    distortion_integrand,
    gronwall_check,
    holder_lower_bound,
    isoperimetric_constant,
    mori_consistency,
    regularity_report,
)
from .catalog import (
    CatalogEntry,
    affine_map,
    catalog_names,
    entry_from_spec,
    list_catalog,
    power_spiral,
    radial_stretch,
    spiral_map,
)
from .config import AnalysisConfig, build_config, default_config_for
from .elliptic import (
    ComparisonReport,
    MatrixField,
    beltrami_from_entries,
    comparison_bounds,
    constant_matrix_field,
    elliptic_holder_bound,
    matrix_field_from_function,
    matrix_from_beltrami,
    validate_matrix_field,
)
from .errors import (
    ConfigError,
    FieldValidationError,
    InvariantViolationError,
    NumericalError,
    OrientationError,
    QcregError,
    SingularPointError,
)
from .extremal import (
    DefectProfile,
    EpsilonProfile,
    ExtremalityVerdict,
    defect_weight_integral,
    empirical_holder,
    epsilon_decompose,
    epsilon_distortion_margin,
    epsilon_weight_integral,
    extremality_report,
    superlevel_lower_density,
)
from .geometry import (
    GeometryProfile,
    geometry_profile,
    image_area_jacobian,
    lengths_and_area,
)
from .io import (
    load_matrix_field,
    load_sampled_field,
    save_matrix_field,
    save_sampled_field,
)
from .plane import (
    BeltramiField,
    CircleSpec,
    DomainSpec,
    MapModel,
    SampledField,
    beltrami_of,
    derive_beltrami,
    disk_samples,
    stretch_factor,
    validate_field,
    wirtinger_from_cartesian,
)
from .quadrature import QuadratureConfig, SupResult, circular_average, sup_over_circles
from .reporting import RunReport, emit_report, run_analysis
