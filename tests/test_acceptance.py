"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute. Each criterion is property-based with closed-form anchors; the
stated tolerances are pinned here, not tuned at runtime.
"""

import numpy as np
import pytest
from scipy.special import ellipe

from qcreg import (
    BeltramiField,
    CircleSpec,
    DomainSpec,
    QuadratureConfig,
    affine_map,
    comparison_bounds,
    constant_matrix_field,
    defect_weight_integral,
    elliptic_holder_bound,
    empirical_holder,
    epsilon_distortion_margin,
    epsilon_weight_integral,
    geometry_profile,
    image_area_green,
    image_area_jacobian,
    isoperimetric_constant,
    lengths_and_area,
    mori_consistency,
    power_spiral,
    radial_stretch,
    run_analysis,
    spiral_map,
    stretch_factor,
    superlevel_lower_density,
    validate_field,
    wirtinger_from_cartesian,
)
from qcreg.config import default_config_for
from qcreg.reporting import report_json_bytes

DOMAIN = DomainSpec.origin_disk()
CFG = QuadratureConfig()
CFG_8192 = QuadratureConfig(nodes=8192, max_doublings=0)
RADII = (0.1, 0.25, 0.5, 1.0)

CATALOG_CASES = [
    radial_stretch(1.5),
    radial_stretch(2.0),
    radial_stretch(5.0),
    spiral_map(0.5),
    spiral_map(1.0),
    spiral_map(2.0),
    affine_map(1.0, 1 / 3),
    power_spiral(0.5, 1.0),
]

# ellipse oracles for affine(1, 1/3): semi-axes (4/3) t and (2/3) t
ELLIPSE_PERIMETER = 4 * (4 / 3) * ellipe(0.75)
ELLIPSE_AREA = 8 * np.pi / 9
ELLIPSE_DEFECT = ELLIPSE_PERIMETER**2 / (4 * np.pi * ELLIPSE_AREA) - 1
AFFINE_ALPHA_NEW = ELLIPSE_PERIMETER**2 / (4 * np.pi * ELLIPSE_AREA) / 1.25


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_length_formula_cross_oracle():
    worst = 0.0
    for entry in CATALOG_CASES:
        for t in RADII:
            circle = [CircleSpec(0j, t)]
            (direct,), (formula,), _ = lengths_and_area(entry.map, circle, CFG_8192)
            worst = max(worst, abs(formula - direct) / direct)
    _report(1, "length-formula-vs-direct", worst <= 1e-6, f"worst rel = {worst:.3e}")


def test_criterion_02_area_cross_oracle():
    worst = 0.0
    for entry in CATALOG_CASES:
        for t in RADII:
            circle = [CircleSpec(0j, t)]
            (green,) = image_area_green(entry.map, circle, CFG)
            (jac,) = image_area_jacobian(entry.map, circle, cfg=CFG)
            worst = max(worst, abs(green - jac) / jac)
    _report(2, "area-green-vs-jacobian", worst <= 1e-6, f"worst rel = {worst:.3e}")


def test_criterion_03_classic_exponent_recovery():
    worst_alpha, worst_margin = 0.0, 0.0
    for K in (1.5, 2.0, 5.0):
        rep = run_analysis(default_config_for(f"radial_stretch(K={K})")).regularity
        worst_alpha = max(worst_alpha, abs(rep.alpha_improved - 1.0 / K))
        worst_margin = max(
            worst_margin, abs(rep.gronwall.worst_margin), abs(rep.gronwall.endpoint_margin)
        )
        assert rep.gronwall.passed
    ok = worst_alpha <= 1e-6 and worst_margin <= 1e-6
    _report(3, "classic-exponent-1/K", ok,
            f"worst |alpha - 1/K| = {worst_alpha:.3e}, gronwall margin = {worst_margin:.3e}")


def test_criterion_04_rotation_example():
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        rep = run_analysis(default_config_for(f"spiral(gamma={gamma})")).regularity
        worst = max(worst, abs(rep.alpha_distortion - 1.0))
    t = 1e-4
    estimates = empirical_holder(geometry_profile(spiral_map(1.0).map, [t], CFG))
    gap = abs(estimates[0][1] - 1.0)
    ok = worst <= 1e-9 and gap <= 1.0 / abs(np.log(t))
    _report(4, "rotation-distortion-bound-1", ok,
            f"worst |alpha - 1| = {worst:.3e}, exponent gap at 1e-4 = {gap:.3e}")


def test_criterion_05_affine_improvement():
    rep = run_analysis(default_config_for("affine(a=1,b=0.3333333333333333)")).regularity
    d_dist = abs(rep.alpha_distortion - 0.800)
    d_new = abs(rep.alpha_improved - AFFINE_ALPHA_NEW)
    ok = d_dist <= 1e-6 and d_new <= 1e-3 and rep.alpha_improved > rep.alpha_distortion
    _report(5, "affine-improvement", ok,
            f"|alpha_dist - 0.8| = {d_dist:.3e}, |alpha_new - oracle| = {d_new:.3e}")


def test_criterion_06_isoperimetric_sanity():
    worst_sup = 0.0
    for entry in CATALOG_CASES:
        sup = isoperimetric_constant(entry.map, DOMAIN, CFG)
        worst_sup = max(worst_sup, sup.value)
    delta = geometry_profile(affine_map(1.0, 1 / 3).map, np.geomspace(0.05, 1.0, 9), CFG).delta
    worst_defect = float(np.abs(delta - ELLIPSE_DEFECT).max())
    ok = worst_sup <= 1.0 + 1e-6 and worst_defect <= 1e-4
    _report(6, "isoperimetric-sanity", ok,
            f"max sup = {worst_sup:.12f}, worst |defect - oracle| = {worst_defect:.3e}")


def test_criterion_07_uniform_bound_chain():
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(100):
        phase, ax, ay = rng.normal(size=3)

        def mu(z, phase=phase, ax=ax, ay=ay):
            return (1 / 3) * np.exp(1j * (phase + ax * z.real + ay * z.imag))

        field = BeltramiField(mu=mu, k_max=1 / 3)
        rep = mori_consistency(field, DOMAIN, CFG)
        worst = max(worst, rep.max_average)
    _report(7, "uniform-bound-chain", worst <= 2.0 + 1e-9, f"max average = {worst:.12f}")


def test_criterion_08_extremizer_diagnostics():
    radii = np.geomspace(1e-3, 1.0, 33)
    interior = radii < 1.0

    stretch = radial_stretch(2.0)
    field = validate_field(stretch.map.beltrami)
    eps = epsilon_weight_integral(field, 2.0, radii, CFG)
    defect = defect_weight_integral(geometry_profile(stretch.map, radii, CFG))
    stretch_ok = (
        float(np.abs(eps.ratio_w).max()) <= 1e-9
        and float(np.abs(defect.ratio_i).max()) <= 1e-9
    )

    k = stretch_factor(2.0)
    perturbed = BeltramiField(
        mu=lambda z: (z / np.conj(z)) * (-k + 0.1), k_max=k, singular_points=(0j,)
    )
    eps_p = epsilon_weight_integral(perturbed, 2.0, radii, CFG)
    perturbed_dev = float(np.abs(eps_p.ratio_w[interior] - 0.1).max())

    affine_cfg = default_config_for("affine(a=1,b=0.3333333333333333)")
    rep = run_analysis(affine_cfg)
    affine_dev = abs(rep.extremality.min_ratio_i - ELLIPSE_DEFECT)
    affine_ok = affine_dev <= 1e-3 and rep.extremality.verdict == "inconsistent"

    ok = stretch_ok and perturbed_dev <= 1e-3 and affine_ok
    _report(8, "extremizer-diagnostics", ok,
            f"stretch ratios <= 1e-9: {stretch_ok}, perturbed dev = {perturbed_dev:.3e}, "
            f"affine ratio-I dev = {affine_dev:.3e}")


def test_criterion_09_perturbation_estimate():
    rng = np.random.default_rng(17)
    K = 2.0
    k = stretch_factor(K)
    circles = DOMAIN.admissible_circles()
    worst = -np.inf
    for _ in range(100):
        a, b, c, d = rng.normal(size=4)

        def mu(z, a=a, b=b, c=c, d=d):
            rho = 0.98 * k * (0.5 + 0.5 * np.sin(a * z.real + b * z.imag + c))
            psi = d + a * z.imag - b * z.real
            return (z / np.conj(z)) * (-k + (k + rho * np.exp(1j * psi)))

        field = BeltramiField(mu=mu, k_max=k, singular_points=(0j,))
        worst = max(worst, epsilon_distortion_margin(field, K, circles, CFG))
    _report(9, "perturbation-estimate", worst <= 1e-9, f"worst margin = {worst:.3e}")


def test_criterion_10_superlevel_density():
    delta0 = 0.05
    r = np.geomspace(2.0**-16, 1.0, 16 * 64)
    level = np.floor(-np.log2(r)).astype(int)
    delta = np.where((level % 2 == 0) & (level > 0), 2 * delta0, 0.0)
    gammas = [2.0 ** -(2 * j + 1) for j in range(1, 5)]

    def exact_measure(g):
        return sum(
            max(min(2.0 ** -(2 * j), g) - min(2.0 ** -(2 * j + 1), g), 0.0)
            for j in range(60)
        )

    exact = min(exact_measure(g) / g for g in gammas)
    dyadic = superlevel_lower_density(zip(r, delta), delta0, gammas)
    zero = superlevel_lower_density(zip(r, np.zeros_like(r)), delta0, gammas)
    const = superlevel_lower_density(zip(r, np.full_like(r, 2 * delta0)), delta0, gammas)
    ok = abs(dyadic - exact) <= 5e-2 and zero == 0.0 and const == 1.0
    _report(10, "superlevel-density", ok,
            f"dyadic = {dyadic:.4f} (exact {exact:.4f}), zero = {zero}, const = {const}")


def test_criterion_11_elliptic_bridge():
    matrices = {
        "identity": ([[1.0, 0.0], [0.0, 1.0]], 1.0),
        "diag": ([[0.5, 0.0], [0.0, 2.0]], 2.0),
        "rotated": ([[1.25, -0.75], [-0.75, 1.25]], 2.0),
    }
    rng = np.random.default_rng(3)
    z = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
    worst_mu = 0.0
    for matrix, K in matrices.values():
        field = constant_matrix_field(matrix, K=K).beltrami
        got = field(z)
        m = np.asarray(matrix, float)
        # oracle: conjugate pairing of the constant-coefficient solution u = x
        f_x, f_y = 1.0 - 1j * m[0, 1], 1j * m[0, 0]
        f_z, f_zb = wirtinger_from_cartesian(f_x, f_y)
        worst_mu = max(worst_mu, float(np.abs(got - f_zb / f_z).max()))

    ordering_ok = True
    for lam in (0.4, 0.5, 0.8):
        field = constant_matrix_field([[lam, 0.0], [0.0, 1.0 / lam]], K=1.0 / lam)
        improved = elliptic_holder_bound(field, DOMAIN, CFG)
        rep = comparison_bounds(field, DOMAIN, improved)
        ordering_ok &= (
            rep.alpha_eigen_ratio <= rep.alpha_divergence + 1e-9
            and rep.alpha_divergence <= improved.alpha_improved + 1e-9
        )

    diag_field = constant_matrix_field([[0.5, 0.0], [0.0, 2.0]], K=2.0)
    diag_improved = elliptic_holder_bound(diag_field, DOMAIN, CFG)
    diag = comparison_bounds(diag_field, DOMAIN, diag_improved)
    triple_ok = (
        abs(diag.alpha_eigen_ratio - 0.5) <= 1e-9
        and abs(diag.alpha_divergence - 0.8) <= 1e-9
        and abs(diag_improved.alpha_improved - 0.8) <= 1e-9
    )
    ok = worst_mu <= 1e-12 and ordering_ok and triple_ok
    _report(11, "elliptic-bridge", ok,
            f"worst |mu - oracle| = {worst_mu:.3e}, ordering = {ordering_ok}, "
            f"diag triple = ({diag.alpha_eigen_ratio:.3f}, {diag.alpha_divergence:.3f}, "
            f"{diag_improved.alpha_improved:.3f})")


def test_criterion_12_determinism():
    cfg = default_config_for("radial_stretch(K=2)", radii={"min": 1e-3, "count": 17})
    a = report_json_bytes(run_analysis(cfg))
    b = report_json_bytes(run_analysis(cfg))
    _report(12, "byte-identical-reports", a == b, f"{len(a)} bytes")
