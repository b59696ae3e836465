import numpy as np
import pytest

from qcreg import (
    DomainSpec,
    FieldValidationError,
    beltrami_from_entries,
    beltrami_of,
    comparison_bounds,
    constant_matrix_field,
    distortion_integrand,
    elliptic_holder_bound,
    matrix_field_from_function,
    matrix_from_beltrami,
    validate_matrix_field,
    wirtinger_from_cartesian,
)
from qcreg.plane import VALIDATION_SAMPLES, MapModel, disk_samples
from conftest import random_points

IDENTITY_M = [[1.0, 0.0], [0.0, 1.0]]
DIAG_M = [[0.5, 0.0], [0.0, 2.0]]
ROTATED_M = [[1.25, -0.75], [-0.75, 1.25]]  # diag(1/2, 2) rotated by pi/4


def conjugate_pair_map(matrix):
    """Oracle: f = u + iv for u = x with grad v = (*A) grad u, A constant.

    For constant A the pairing is the linear map f_x = 1 - i a12,
    f_y = i a11, whose distortion quotient is computed independently of
    the matrix formula under test.
    """
    m = np.asarray(matrix, float)
    a11, a12 = m[0, 0], m[0, 1]
    f_x, f_y = 1.0 - 1j * a12, 1j * a11

    def value(z):
        z = np.asarray(z, complex)
        return z.real * f_x + z.imag * f_y

    def partials(z):
        z = np.asarray(z, complex)
        one = np.ones_like(z)
        return f_x * one, f_y * one

    def jacobian(z):
        z = np.asarray(z, complex)
        return np.full(z.shape, (np.conj(f_x) * f_y).imag)

    return MapModel(value=value, partials=partials, jacobian=jacobian)


def conjugate_pair_map_y(matrix):
    """Same oracle built from the independent solution u = y."""
    m = np.asarray(matrix, float)
    a12, a22 = m[0, 1], m[1, 1]
    f_x, f_y = -1j * a22, 1.0 + 1j * a12

    def partials(z):
        z = np.asarray(z, complex)
        one = np.ones_like(z)
        return f_x * one, f_y * one

    return MapModel(
        value=lambda z: np.asarray(z, complex).real * f_x
        + np.asarray(z, complex).imag * f_y,
        partials=partials,
        jacobian=lambda z: np.full(np.asarray(z).shape, (np.conj(f_x) * f_y).imag),
    )


class TestValidation:
    def test_identity_accepted(self):
        validate_matrix_field(constant_matrix_field(IDENTITY_M, K=1.0))

    def test_eigenvalues_at_bounds_accepted(self):
        validate_matrix_field(constant_matrix_field(DIAG_M, K=2.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(FieldValidationError):
            validate_matrix_field(constant_matrix_field([[0.1, 0], [0, 20.0]], K=2.0))

    def test_asymmetry_rejected(self):
        with pytest.raises(FieldValidationError):
            matrix_field_from_function(
                lambda z: np.broadcast_to(
                    np.array([[1.0, 0.1], [0.0, 1.0]]), np.asarray(z).shape + (2, 2)
                ),
                K=2.0,
            ).beltrami(np.zeros(3, complex))

    def test_checked_wrapper_rejects_later_violations(self):
        def fn(z):
            big = np.where(np.abs(z) > 1.5, 10.0, 1.0)
            zero = np.zeros(np.shape(z))
            return np.stack([np.stack([big, zero], -1), np.stack([zero, big], -1)], -2)

        field = validate_matrix_field(matrix_field_from_function(fn, K=2.0))
        field(np.array([0.5 + 0j]))  # fine inside the sample region
        with pytest.raises(FieldValidationError, match=r"at z = \(2\+0j\) leave"):
            field(np.array([0.5, 2.0, 3.0], dtype=complex))

    def test_validation_evaluates_the_sample_once(self):
        calls = []

        def fn(z):
            calls.append(np.size(z))
            return np.broadcast_to(np.array(DIAG_M), np.shape(z) + (2, 2))

        validate_matrix_field(matrix_field_from_function(fn, K=2.0))
        assert calls == [VALIDATION_SAMPLES]

    def test_non_finite_entries_outside_the_sample_raise_at_use(self, cfg):
        # diag(1/2, 2) on the closed unit disk, NaN beyond: validation on the
        # unit disk passes, and the eigenvalue sample over the outer disk of
        # radius 1.5 must name a NaN point instead of reporting NaN bounds
        def fn(z):
            inside = (np.abs(z) <= 1.0)[..., None, None]
            return np.where(inside, np.array(DIAG_M), np.nan)

        field = validate_matrix_field(matrix_field_from_function(fn, K=2.0))
        domain = DomainSpec(centers=(0j,), radii=(0.25, 0.5, 0.99), outer_radius=1.5)
        improved = elliptic_holder_bound(field, domain, cfg)
        assert improved.alpha_distortion == pytest.approx(0.8, abs=1e-12)
        with pytest.raises(FieldValidationError, match="non-finite matrix entries at z = ") as err:
            comparison_bounds(field, domain, improved)
        assert abs(complex(str(err.value).split("z = ")[1])) > 1.0

    def test_det_one_check(self):
        # eigenvalues 2, 2 lie in [1/2, 2]; only det A = 4 is wrong
        bad = constant_matrix_field([[2.0, 0], [0, 2.0]], K=2.0)
        with pytest.raises(FieldValidationError, match=r"\|det A - 1\|"):
            validate_matrix_field(bad)

    def test_unified_inequality_on_random_vectors(self, rng):
        # |xi|^2 + |A xi|^2 <= (K + 1/K) <A xi, xi> for eigenvalues in [1/K, K]
        K = 3.0
        for _ in range(50):
            lam = rng.uniform(1 / K, K, size=2)
            phi = rng.uniform(0, np.pi)
            R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            A = R @ np.diag(lam) @ R.T
            xi = rng.normal(size=2)
            lhs = xi @ xi + (A @ xi) @ (A @ xi)
            rhs = (K + 1 / K) * xi @ A @ xi
            assert lhs <= rhs + 1e-12


class TestBeltramiFromMatrix:
    def test_identity_matrix(self):
        field = constant_matrix_field(IDENTITY_M, K=1.0).beltrami
        assert np.abs(field(np.array([0.3 + 0.1j]))).max() == 0.0

    @pytest.mark.parametrize(
        "matrix,K", [(IDENTITY_M, 1.0), (DIAG_M, 2.0), (ROTATED_M, 2.0)]
    )
    def test_matches_conjugate_pair_oracle(self, matrix, K, rng):
        field = constant_matrix_field(matrix, K=K).beltrami
        z = random_points(rng, 128)
        got = field(z)

        for oracle_map in (conjugate_pair_map(matrix), conjugate_pair_map_y(matrix)):
            f_x, f_y = oracle_map.partials(z)
            f_z, f_zb = wirtinger_from_cartesian(f_x, f_y)
            assert np.abs(got - f_zb / f_z).max() <= 1e-12

    def test_diag_value(self):
        field = constant_matrix_field(DIAG_M, K=2.0).beltrami
        assert field(np.array([1j]))[0] == pytest.approx(1 / 3, abs=1e-15)

    def test_rotated_value(self):
        field = constant_matrix_field(ROTATED_M, K=2.0).beltrami
        assert field(np.array([1j]))[0] == pytest.approx(1j / 3, abs=1e-15)

    def test_rejects_unnormalized_determinant(self):
        field = constant_matrix_field([[2.0, 0], [0, 2.0]], K=2.0).beltrami
        with pytest.raises(FieldValidationError, match="determinant"):
            field(np.array([0.5 + 0j]))

    def test_bound_respected(self, rng):
        field = constant_matrix_field(DIAG_M, K=2.0).beltrami
        z = random_points(rng, 64)
        assert np.abs(field(z)).max() <= (2 - 1) / (2 + 1) + 1e-15


class TestMatrixRoundTrip:
    @pytest.mark.parametrize("mu", [0j, 1 / 3 + 0j, 1j / 3, 0.2 - 0.1j])
    def test_reconstruction_has_det_one(self, mu):
        a11, a12, a22 = matrix_from_beltrami(np.array([mu]))
        assert (a11 * a22 - a12**2)[0] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_rotated(self, rng):
        field = constant_matrix_field(ROTATED_M, K=2.0).beltrami
        z = random_points(rng, 64)
        a11, a12, a22 = matrix_from_beltrami(field(z))
        assert np.abs(a11 - 1.25).max() <= 1e-9
        assert np.abs(a12 + 0.75).max() <= 1e-9
        assert np.abs(a22 - 1.25).max() <= 1e-9

    def test_random_det_one_fields(self, rng):
        # mu -> A -> mu closes exactly
        mu = 0.8 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        mu = mu / np.maximum(1.0, np.abs(mu) / 0.7)
        a11, a12, a22 = matrix_from_beltrami(mu)
        assert np.abs(beltrami_from_entries(a11, a12, a22) - mu).max() <= 1e-12

    def test_normal_quadratic_form_is_the_distortion_integrand(self, rng):
        # det 1: <eta, A eta> = |1 - conj(eta)^2 mu|^2 / (1 - |mu|^2) for unit eta
        mu = 0.9 * np.sqrt(rng.uniform(size=256)) * np.exp(2j * np.pi * rng.uniform(size=256))
        eta = np.exp(2j * np.pi * rng.uniform(size=256))
        a11, a12, a22 = matrix_from_beltrami(mu)
        c, s = eta.real, eta.imag
        form = a11 * c * c + 2.0 * a12 * c * s + a22 * s * s
        distortion = distortion_integrand(mu, eta)
        assert np.abs(form - distortion).max() <= 1e-12 * distortion.max()


class TestGradientBound:
    @pytest.mark.parametrize("matrix,K", [(DIAG_M, 2.0), (ROTATED_M, 2.0)])
    def test_hilbert_schmidt_vs_jacobian(self, matrix, K, rng):
        # ||Df||^2 <= (K + 1/K) J for the conjugate pairing of a constant field
        oracle = conjugate_pair_map(matrix)
        z = random_points(rng, 256)
        f_x, f_y = oracle.partials(z)
        df2 = np.abs(f_x) ** 2 + np.abs(f_y) ** 2
        jac = oracle.jacobian(z)
        assert np.all(df2 <= (K + 1 / K) * jac + 1e-12)


class TestEllipticBounds:
    def test_identity_bound_is_one(self, domain, cfg):
        rep = elliptic_holder_bound(constant_matrix_field(IDENTITY_M, K=1.0), domain, cfg)
        assert rep.alpha_improved == pytest.approx(1.0)

    def test_diag_bound(self, domain, cfg):
        rep = elliptic_holder_bound(constant_matrix_field(DIAG_M, K=2.0), domain, cfg)
        # constant mu = 1/3: C = (1 + 1/9)/(1 - 1/9) = 1.25
        assert rep.distortion_sup == pytest.approx(1.25, abs=1e-12)
        assert rep.alpha_improved == pytest.approx(0.8, abs=1e-9)
        assert rep.isoperimetric_sup == 1.0

    def test_rotation_invariance(self, domain, cfg):
        a = elliptic_holder_bound(constant_matrix_field(DIAG_M, K=2.0), domain, cfg)
        b = elliptic_holder_bound(constant_matrix_field(ROTATED_M, K=2.0), domain, cfg)
        assert a.alpha_improved == pytest.approx(b.alpha_improved, abs=1e-12)


class TestComparisonBounds:
    def test_identity_all_ones(self, domain, cfg):
        field = constant_matrix_field(IDENTITY_M, K=1.0)
        improved = elliptic_holder_bound(field, domain, cfg)
        rep = comparison_bounds(field, domain, improved)
        assert rep.alpha_eigen_ratio == pytest.approx(1.0)
        assert rep.alpha_divergence == pytest.approx(1.0)
        assert improved.alpha_improved == pytest.approx(1.0)

    def test_diag_values(self, domain, cfg):
        field = constant_matrix_field(DIAG_M, K=2.0)
        improved = elliptic_holder_bound(field, domain, cfg)
        rep = comparison_bounds(field, domain, improved)
        assert rep.alpha_eigen_ratio == pytest.approx(0.5, abs=1e-12)
        # normal average = (a11 + a22)/2 = 1.25 on every circle
        assert rep.alpha_divergence == pytest.approx(0.8, abs=1e-12)
        assert improved.alpha_improved == pytest.approx(0.8, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.4, 0.6, 0.9])
    def test_ordering_on_diagonal_fields(self, lam, domain, cfg):
        matrix = [[lam, 0.0], [0.0, 1.0 / lam]]
        field = constant_matrix_field(matrix, K=1.0 / lam)
        improved = elliptic_holder_bound(field, domain, cfg)
        rep = comparison_bounds(field, domain, improved)
        assert rep.alpha_eigen_ratio <= rep.alpha_divergence + 1e-9
        assert rep.alpha_divergence <= improved.alpha_improved + 1e-9

    def test_eigen_extremes_reported(self, domain, cfg):
        field = constant_matrix_field(DIAG_M, K=2.0)
        rep = comparison_bounds(field, domain, elliptic_holder_bound(field, domain, cfg))
        assert rep.lambda_min == pytest.approx(0.5)
        assert rep.lambda_max == pytest.approx(2.0)
        assert rep.sample_count == 4096
