"""From a coefficient matrix to an exponent bound, and back.

A symmetric uniformly elliptic matrix field with determinant 1 induces a
complex-distortion coefficient mu = (a22 - a11 - 2 i a12)/(2 + a11 + a22);
solutions of the divergence-form equation inherit every bound the
quasiconformal machinery produces for mu. The demo validates fields,
builds the coefficient, compares the eigenvalue-ratio bound with the
PDE bound 1/C of the coefficient's regularity report (the <eta, A eta>
average bound is the same number for det A = 1) and shows the grid-file
round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from qcreg import (
    DomainSpec,
    QuadratureConfig,
    beltrami_from_matrix,
    comparison_bounds,
    constant_matrix_field,
    elliptic_holder_bound,
    load_matrix_field,
    matrix_from_beltrami,
    save_matrix_field,
    validate_matrix_field,
)

domain = DomainSpec.origin_disk()
cfg = QuadratureConfig()

print("=== validation: ellipticity certified on a deterministic sample ===")
diag = validate_matrix_field(constant_matrix_field([[0.5, 0.0], [0.0, 2.0]], K=2.0))
print("diag(1/2, 2) accepted with K = 2; eigenvalues sit exactly at the bounds")

print()
print("=== the induced complex-distortion coefficient ===")
mu = beltrami_from_matrix(diag)
z = np.array([0.4 + 0.3j])
print(f"diag(1/2, 2)         -> mu = {mu(z)[0]:.6f} (real axis stretch)")
rotated = validate_matrix_field(constant_matrix_field([[1.25, -0.75], [-0.75, 1.25]], K=2.0))
print(f"same field rotated   -> mu = {beltrami_from_matrix(rotated)(z)[0]:.6f}")
a11, a12, a22 = matrix_from_beltrami(mu(z))
print(f"round trip from mu   -> a11 = {a11[0]:.6f}, a12 = {a12[0]:.6f}, a22 = {a22[0]:.6f}")

print()
print("=== two distinct exponent bounds, ordered ===")
# the report of a matrix field is the regularity report of its mu: for
# det A = 1, <eta, A eta> is the distortion weight, so the PDE bound is 1/C
for lam in (0.5, 0.7, 0.9):
    matrix = [[lam, 0.0], [0.0, 1.0 / lam]]
    field = validate_matrix_field(constant_matrix_field(matrix, K=1.0 / lam))
    report = elliptic_holder_bound(field, domain, cfg)
    rep = comparison_bounds(field, domain, cfg, improved=report)
    print(f"diag({lam}, {1/lam:.3f}): eigen-ratio {rep.alpha_eigen_ratio:.4f} "
          f"<= 1/C {report.alpha_distortion:.4f}")

print()
print("=== grid files: x,y,a11,a12,a22 plus a JSON descriptor ===")
with tempfile.TemporaryDirectory() as tmp:
    # a varying det-1 grid: A rebuilt node by node from a smooth mu
    n, half, k = 33, 1.2, 1 / 3
    h = 2 * half / (n - 1)
    xs = -half + h * np.arange(n)
    x, y = xs[None, :], xs[:, None]
    node_mu = k * np.exp(1j * (2 * x - y)) * (0.75 + 0.25 * np.cos(3 * y))
    path = Path(tmp) / "matrix.csv"
    save_matrix_field(
        path,
        matrix_from_beltrami(node_mu),
        origin=complex(-half, -half),
        spacing=h,
        K=(1 + k) / (1 - k),
    )
    # loaded as the mu grid it encodes: mu is interpolated, so det A = 1
    # holds between the nodes as well
    loaded = validate_matrix_field(load_matrix_field(path, interpolation="bilinear"))
    off_node = np.array([0.11 + 0.07j, -0.43 + 0.29j])
    print(f"max |det A - 1| between nodes: {np.abs(loaded.determinant(off_node) - 1).max():.1e}")
    report = elliptic_holder_bound(loaded, domain, cfg)
    rep = comparison_bounds(loaded, domain, cfg, improved=report)
    print(f"loaded {path.name} (bilinear): eigen-ratio {rep.alpha_eigen_ratio:.6f}, "
          f"1/C {report.alpha_distortion:.6f}")
