"""Divergence-form coefficient matrices and their complex-distortion bridge.

A symmetric uniformly elliptic matrix field A(z) with determinant 1 pairs a
solution u of div(A grad u) = 0 with its conjugate into a single complex
map whose distortion coefficient is

    mu = (a22 - a11 - 2 i a12) / (2 + a11 + a22).

That coefficient satisfies |mu| <= (K-1)/(K+1) whenever the eigenvalues of
A lie in [1/K, K], so the exponent machinery applies verbatim to the PDE
side. Only the determinant-1 case is wired up: general determinants do not
reduce to a single complex-linear coefficient and are rejected:
`validate_matrix_field` checks |det A - 1| <= DET_TOL for every field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bounds import (
    RegularityReport,
    distortion_constant,
    holder_lower_bound,
    mori_from_sup,
)
from .errors import FieldValidationError
from .plane import (
    VALIDATION_DISK,
    BeltramiField,
    CircleSpec,
    DomainSpec,
    SampledField,
    disk_samples,
)
from .quadrature import QuadratureConfig

#: allowed asymmetry when building the triple from a full 2x2 evaluator
SYMMETRY_TOL = 1e-12

#: allowed deviation of det A from 1 for the complex-linear reduction
DET_TOL = 1e-9

# entries as (a11, a12, a22) arrays
TripleFunc = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MatrixField:
    """Symmetric 2x2 coefficient field with declared ellipticity bound K.

    `grid` is the mu grid a field read from a file interpolates; its hull
    is where the entries are data.
    """

    entries: TripleFunc
    K: float
    verified: bool = False
    grid: SampledField | None = None

    def __post_init__(self):
        if not (self.K >= 1.0 and np.isfinite(self.K)):
            raise ValueError(f"need K >= 1, got {self.K}")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        a11, a12, a22 = self.entries(z)
        return (
            np.asarray(a11, dtype=float),
            np.asarray(a12, dtype=float),
            np.asarray(a22, dtype=float),
        )

    def eigenvalues(self, z):
        """Eigenvalue pair (lambda_min, lambda_max) at each point."""
        return _eigenvalues(*self(z))

    def determinant(self, z):
        a11, a12, a22 = self(z)
        return a11 * a22 - a12**2


def constant_matrix_field(matrix, K: float) -> MatrixField:
    """MatrixField for a constant symmetric 2x2 matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("matrix must be 2x2")
    if abs(m[0, 1] - m[1, 0]) > SYMMETRY_TOL:
        raise FieldValidationError(f"matrix asymmetry {abs(m[0,1]-m[1,0])} > {SYMMETRY_TOL}")
    a11, a12, a22 = float(m[0, 0]), float(0.5 * (m[0, 1] + m[1, 0])), float(m[1, 1])

    def entries(z):
        shape = np.asarray(z).shape
        return (np.full(shape, a11), np.full(shape, a12), np.full(shape, a22))

    return MatrixField(entries=entries, K=float(K))


def matrix_field_from_function(fn, K: float) -> MatrixField:
    """Wrap an evaluator returning full (..., 2, 2) matrices, checking symmetry."""

    def entries(z):
        m = np.asarray(fn(np.asarray(z, dtype=complex)), dtype=float)
        if m.shape[-2:] != (2, 2):
            raise ValueError("evaluator must return (..., 2, 2) matrices")
        asym = np.abs(m[..., 0, 1] - m[..., 1, 0]).max()
        if asym > SYMMETRY_TOL:
            raise FieldValidationError(f"matrix asymmetry {asym} > {SYMMETRY_TOL}")
        return m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]

    return MatrixField(entries=entries, K=float(K))


def validate_matrix_field(
    field: MatrixField,
    K: float | None = None,
    *,
    region: CircleSpec | None = None,
    samples: int = 4096,
    seed: int = 0,
) -> MatrixField:
    """Certify ellipticity on a deterministic sample and wrap the evaluator.

    Checks that the entries are finite with eigenvalues in [1/K, K],
    verifies the unified inequality |xi|^2 + |A xi|^2 <= (K + 1/K) <A xi, xi>
    on random unit vectors, and that |det A - 1| <= DET_TOL.
    The returned field re-checks the entries and the eigenvalue range on
    every later evaluation.
    """
    if K is None:
        K = field.K
    if not K >= 1.0:
        raise FieldValidationError(f"need K >= 1, got {K}")
    region = region or VALIDATION_DISK
    pts = disk_samples(samples, region.center, region.radius)
    a11, a12, a22 = field(pts)
    _check_eigen_range(a11, a12, a22, pts, K)

    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=pts.shape)
    x, y = np.cos(phi), np.sin(phi)
    ax = a11 * x + a12 * y
    ay = a12 * x + a22 * y
    lhs = 1.0 + ax**2 + ay**2
    rhs = (K + 1.0 / K) * (ax * x + ay * y)
    worst = float((lhs - rhs).max())
    if worst > 1e-9:
        raise FieldValidationError(
            f"unified ellipticity inequality fails by {worst} on the sample"
        )
    dev = float(np.abs(a11 * a22 - a12**2 - 1.0).max())
    if dev > DET_TOL:
        raise FieldValidationError(f"|det A - 1| = {dev} > {DET_TOL} on the sample")

    def checked(z):
        entries = field(z)
        _check_eigen_range(*entries, z, K)
        return entries

    return replace(field, entries=checked, K=float(K), verified=True)


def _eigenvalues(a11, a12, a22):
    mean = (a11 + a22) / 2.0
    spread = np.sqrt(((a11 - a22) / 2.0) ** 2 + a12**2)
    return mean - spread, mean + spread


def _check_eigen_range(a11, a12, a22, pts, K: float) -> None:
    """Raise at the first point with a non-finite entry or eigenvalues outside [1/K, K]."""
    a11, a12, a22, pts = np.broadcast_arrays(a11, a12, a22, pts)
    lo, hi = _eigenvalues(a11, a12, a22)
    ok = (lo >= 1.0 / K - 1e-12) & (hi <= K + 1e-12)  # False wherever NaN
    if ok.all():
        return
    j = np.unravel_index(np.argmin(ok), ok.shape)
    if not np.isfinite([a11[j], a12[j], a22[j]]).all():
        raise FieldValidationError(f"non-finite matrix entries at z = {pts[j]}")
    raise FieldValidationError(
        f"eigenvalues [{lo[j]}, {hi[j]}] at z = {pts[j]} leave [{1.0/K}, {K}]"
    )


def beltrami_from_matrix(field: MatrixField) -> BeltramiField:
    """Complex-distortion coefficient of the conjugate pairing of det-1 fields.

    mu(z) = (a22 - a11 - 2 i a12) / (2 + a11 + a22); the determinant is
    checked at every evaluation and a deviation beyond 1e-9 raises
    FieldValidationError (normalize A to determinant 1 first - other
    determinants have no supported reduction here).
    """

    def mu(z):
        a11, a12, a22 = field(np.asarray(z, dtype=complex))
        det = a11 * a22 - a12**2
        dev = float(np.abs(det - 1.0).max()) if np.size(det) else 0.0
        if dev > DET_TOL:
            raise FieldValidationError(
                f"|det A - 1| = {dev} > {DET_TOL}: normalize the field to "
                "determinant 1 before building a distortion coefficient"
            )
        return beltrami_from_entries(a11, a12, a22)

    k_max = (field.K - 1.0) / (field.K + 1.0)
    return BeltramiField(mu=mu, k_max=k_max)


def beltrami_from_entries(a11, a12, a22) -> np.ndarray:
    """The bridge mu = (a22 - a11 - 2 i a12) / (2 + a11 + a22) of det-1 entries."""
    return (a22 - a11 - 2j * a12) / (2.0 + a11 + a22)


def matrix_from_beltrami(mu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild the determinant-1 coefficient triple from mu values.

    Inverse of `beltrami_from_matrix`:
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

    Builds the distortion coefficient, runs the distortion supremum and
    sets the roundness factor to 1 (no solution map is available), so the
    reported bound is 1 / C with C the distortion supremum.
    """
    validated = field if field.verified else validate_matrix_field(field)
    mu_field = beltrami_from_matrix(validated)
    c_sup = distortion_constant(mu_field, domain, cfg)
    return RegularityReport(
        distortion_sup=c_sup.value,
        isoperimetric_sup=1.0,
        alpha_improved=holder_lower_bound(1.0, c_sup.value),
        alpha_distortion=1.0 / c_sup.value,
        alpha_classical=1.0 / validated.K,
        distortion_argmax=c_sup.argmax,
        isoperimetric_argmax=None,
        mori=mori_from_sup(mu_field, c_sup),
        gronwall=None,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Exponent bounds for the same coefficient field.

    * alpha_eigen_ratio: sqrt(lambda / Lambda) from the extreme sampled
      eigenvalues (the classical isotropic-type estimate);
    * alpha_divergence: inverse of the supremum of per-circle averages of
      <eta, A eta>. For det A = 1 that form equals the distortion weight
      |1 - conj(eta)^2 mu|^2 / (1 - |mu|^2) pointwise, so the supremum is
      C and this is the distortion bound 1 / C;
    * alpha_improved: the bound 1 / (A C) of `elliptic_holder_bound`, with
      A = 1.
    """

    alpha_eigen_ratio: float
    alpha_divergence: float
    alpha_improved: float
    lambda_min: float
    lambda_max: float
    sample_count: int

    def describe(self) -> dict:
        return {
            "alpha_eigen_ratio": self.alpha_eigen_ratio,
            "alpha_divergence": self.alpha_divergence,
            "alpha_improved": self.alpha_improved,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "sample_count": self.sample_count,
        }


def comparison_bounds(
    field: MatrixField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    samples: int = 4096,
    improved: RegularityReport | None = None,
) -> ComparisonReport:
    """Compare the eigenvalue-ratio, divergence-average and improved bounds.

    lambda and Lambda are estimated as extreme sampled eigenvalues over the
    outer domain (an essential-inf/sup approximation; the sample count is
    reported alongside). The divergence bound is the 1 / C that the
    `elliptic_holder_bound` report holds. `improved` is that report for the
    same field, domain and config when the caller already holds it;
    otherwise it is computed here.
    """
    validated = field if field.verified else validate_matrix_field(field)
    pts = disk_samples(samples, domain.outer_center, domain.outer_radius)
    lo, hi = validated.eigenvalues(pts)
    lam, Lam = float(lo.min()), float(hi.max())
    if improved is None:
        improved = elliptic_holder_bound(validated, domain, cfg)
    return ComparisonReport(
        alpha_eigen_ratio=float(np.sqrt(lam / Lam)),
        alpha_divergence=improved.alpha_distortion,
        alpha_improved=improved.alpha_improved,
        lambda_min=lam,
        lambda_max=Lam,
        sample_count=samples,
    )
