"""Divergence-form coefficient matrices and their complex-distortion bridge.

A symmetric uniformly elliptic matrix field A(z) with determinant 1 pairs a
solution u of div(A grad u) = 0 with its conjugate into a single complex
map whose distortion coefficient is

    mu = (a22 - a11 - 2 i a12) / (2 + a11 + a22).

That coefficient satisfies |mu| <= (K-1)/(K+1) whenever the eigenvalues of
A lie in [1/K, K], so the exponent machinery applies verbatim to the PDE
side. A `MatrixField` therefore holds mu, and the entries are rebuilt from
it only where a caller needs A. Only the determinant-1 case is wired up:
general determinants do not reduce to a single complex-linear coefficient,
so outside input is checked where it enters. The constructors check
|det A - 1| <= DET_TOL at every evaluation, and `qcreg.io` at every grid
node.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bounds import RegularityReport, regularity_report
from .errors import FieldValidationError
from .plane import (
    BeltramiField,
    DomainSpec,
    SampledField,
    _Validated,
    disk_samples,
    validate_field,
)
from .quadrature import QuadratureConfig

#: allowed asymmetry when building the triple from a full 2x2 evaluator
SYMMETRY_TOL = 1e-12

#: allowed deviation of det A from 1 for the complex-linear reduction
DET_TOL = 1e-9

#: points of the eigenvalue sample over the outer domain disk
EIGEN_SAMPLES = 4096


class _MatrixFields(NamedTuple):
    beltrami: BeltramiField
    K: float
    grid: SampledField | None


class MatrixField(_Validated, _MatrixFields):
    """Symmetric det-1 coefficient field, held as its distortion coefficient.

    `beltrami` is the mu of the bridge, bounded by (K-1)/(K+1); the entries
    are rebuilt from it with `matrix_from_beltrami` only where a caller
    needs A. `grid` is the mu grid a field read from a file interpolates;
    its hull is where the field is data.
    """

    __slots__ = ()

    def __new__(cls, beltrami: BeltramiField, K: float, grid: SampledField | None = None):
        _k_max(K)  # raises unless K >= 1 is finite
        return super().__new__(cls, beltrami, K, grid)

    def __call__(self, z):
        """The entries (a11, a12, a22) at each point."""
        return matrix_from_beltrami(self.beltrami(z))

    def eigenvalues(self, z):
        """Eigenvalue pair (lambda_min, lambda_max) at each point."""
        return _eigenvalues(*self(z))

    def determinant(self, z):
        a11, a12, a22 = self(z)
        return a11 * a22 - a12**2


def constant_matrix_field(matrix, K: float) -> MatrixField:
    """MatrixField for a constant symmetric 2x2 matrix."""
    m = np.array(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("matrix must be 2x2")
    if abs(m[0, 1] - m[1, 0]) > SYMMETRY_TOL:
        raise FieldValidationError(f"matrix asymmetry {abs(m[0,1]-m[1,0])} > {SYMMETRY_TOL}")
    m[0, 1] = m[1, 0] = 0.5 * (m[0, 1] + m[1, 0])
    return matrix_field_from_function(lambda z: np.broadcast_to(m, np.shape(z) + (2, 2)), K)


def matrix_field_from_function(fn, K: float) -> MatrixField:
    """Wrap an evaluator returning full (..., 2, 2) matrices.

    Every evaluation checks symmetry, finite entries, eigenvalues in
    [1/K, K] and |det A - 1| <= DET_TOL, naming the first bad point, and
    then converts the entries to mu.
    """
    K = float(K)

    def mu(z):
        m = np.asarray(fn(z), dtype=float)
        if m.shape[-2:] != (2, 2):
            raise ValueError("evaluator must return (..., 2, 2) matrices")
        asym = np.abs(m[..., 0, 1] - m[..., 1, 0]).max(initial=0.0)
        if asym > SYMMETRY_TOL:
            raise FieldValidationError(f"matrix asymmetry {asym} > {SYMMETRY_TOL}")
        a11, a12, a22 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
        _check_entries(a11, a12, a22, z, K)
        return beltrami_from_entries(a11, a12, a22)

    return MatrixField(BeltramiField(mu=mu, k_max=_k_max(K)), K)


def _k_max(K: float) -> float:
    """The mu bound (K-1)/(K+1) of eigenvalues in [1/K, K]."""
    if not (K >= 1.0 and np.isfinite(K)):
        raise ValueError(f"need K >= 1, got {K}")
    return (K - 1.0) / (K + 1.0)


def validate_matrix_field(field: MatrixField) -> MatrixField:
    """Certify ellipticity on a deterministic sample.

    `validate_field` evaluates mu once on its sample and certifies
    |mu| <= (K-1)/(K+1); the returned field re-checks that bound at every
    later evaluation. The unified inequality |xi|^2 + |A xi|^2 <=
    (K + 1/K) <A xi, xi> is then checked for the matrix rebuilt at the
    sample's largest |mu|, on its top eigenvector: for det-1 entries
    that is the worst case over the sample and over unit vectors xi.
    """
    K = field.K
    beltrami = validate_field(field.beltrami)
    _, _, top = matrix_from_beltrami(beltrami.verified_k_max)  # A = diag(1/top, top)
    worst = float(1.0 + top**2 - (K + 1.0 / K) * top)
    if worst > 1e-9:
        raise FieldValidationError(
            f"unified ellipticity inequality fails by {worst} on the sample"
        )
    return field._replace(beltrami=beltrami)


def _eigenvalues(a11, a12, a22):
    mean = (a11 + a22) / 2.0
    spread = np.sqrt(((a11 - a22) / 2.0) ** 2 + a12**2)
    return mean - spread, mean + spread


def _check_entries(a11, a12, a22, pts, K: float) -> None:
    """Raise at the first point with a non-finite entry, eigenvalues outside
    [1/K, K] or |det A - 1| > DET_TOL."""
    a11, a12, a22, pts = np.broadcast_arrays(a11, a12, a22, pts)
    lo, hi = _eigenvalues(a11, a12, a22)
    ok = (lo >= 1.0 / K - 1e-12) & (hi <= K + 1e-12)  # False wherever NaN
    if not ok.all():
        j = np.unravel_index(np.argmin(ok), ok.shape)
        if not np.isfinite([a11[j], a12[j], a22[j]]).all():
            raise FieldValidationError(f"non-finite matrix entries at z = {pts[j]}")
        raise FieldValidationError(
            f"eigenvalues [{lo[j]}, {hi[j]}] at z = {pts[j]} leave [{1.0/K}, {K}]"
        )
    dev = np.abs(a11 * a22 - a12**2 - 1.0)
    if (dev > DET_TOL).any():
        j = np.unravel_index(np.argmax(dev > DET_TOL), dev.shape)
        raise FieldValidationError(
            f"|det A - 1| = {dev[j]} > {DET_TOL} at z = {pts[j]}: normalize the "
            "field to determinant 1 before building a distortion coefficient"
        )


def beltrami_from_entries(a11, a12, a22) -> np.ndarray:
    """The bridge mu = (a22 - a11 - 2 i a12) / (2 + a11 + a22) of det-1 entries."""
    return (a22 - a11 - 2j * a12) / (2.0 + a11 + a22)


def matrix_from_beltrami(mu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild the determinant-1 coefficient triple from mu values.

    Inverse of `beltrami_from_entries`:
    A = [[|1-mu|^2, -2 Im mu], [-2 Im mu, |1+mu|^2]] / (1 - |mu|^2).
    """
    mu = np.asarray(mu, dtype=complex)
    denom = 1.0 - np.abs(mu) ** 2
    if np.any(denom <= 0):
        raise FieldValidationError("matrix reconstruction needs |mu| < 1")
    a11 = np.abs(1.0 - mu) ** 2 / denom
    a22 = np.abs(1.0 + mu) ** 2 / denom
    a12 = -2.0 * mu.imag / denom
    return a11, a12, a22


def elliptic_holder_bound(
    field: MatrixField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> RegularityReport:
    """Exponent report for solutions of div(A grad u) = 0 with det A = 1.

    The `regularity_report` of the field's distortion coefficient
    `field.beltrami`: <eta, A eta> equals its distortion weight pointwise,
    so the PDE bound is 1 / C. No solution map is available, so A = 1 and
    the report carries no Gronwall verdict. Certify the field first with
    `validate_matrix_field`.
    """
    return regularity_report(field.beltrami, domain, cfg)


class ComparisonReport(NamedTuple):
    """The eigenvalue-ratio bound beside the divergence bound of the same field.

    * alpha_eigen_ratio: sqrt(lambda / Lambda) from the extreme sampled
      eigenvalues (the classical isotropic-type estimate);
    * alpha_divergence: inverse of the supremum of per-circle averages of
      <eta, A eta>. For det A = 1 that form equals the distortion weight
      |1 - conj(eta)^2 mu|^2 / (1 - |mu|^2) pointwise, so the supremum is
      C and this is the `alpha_distortion` 1 / C of the field's
      `elliptic_holder_bound` report, bit for bit.
    """

    alpha_eigen_ratio: float
    alpha_divergence: float
    lambda_min: float
    lambda_max: float
    sample_count: int

    def describe(self) -> dict:
        return {
            "alpha_eigen_ratio": self.alpha_eigen_ratio,
            "alpha_divergence": self.alpha_divergence,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "sample_count": self.sample_count,
        }


def comparison_bounds(
    field: MatrixField, domain: DomainSpec, improved: RegularityReport
) -> ComparisonReport:
    """Compare the eigenvalue-ratio bound with the divergence-average bound.

    lambda and Lambda are estimated as extreme eigenvalues on EIGEN_SAMPLES
    points of the outer domain disk (an essential-inf/sup approximation;
    the sample count is reported alongside). The divergence bound is the
    1 / C of `improved`, the `elliptic_holder_bound` report of the same
    field and domain.
    """
    pts = disk_samples(EIGEN_SAMPLES, domain.outer_center, domain.outer_radius)
    lo, hi = field.eigenvalues(pts)
    lam, Lam = float(lo.min()), float(hi.max())
    return ComparisonReport(
        alpha_eigen_ratio=float(np.sqrt(lam / Lam)),
        alpha_divergence=improved.alpha_distortion,
        lambda_min=lam,
        lambda_max=Lam,
        sample_count=EIGEN_SAMPLES,
    )
