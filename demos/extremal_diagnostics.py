"""Extremality diagnostics: is a field close to the worst case?

A map that exactly attains the 1/K exponent at the origin must have a
coefficient that looks like the pure radial stretch near 0 and must take
small circles to near-circles. The diagnostics quantify both statements:
the running minimum of W(t)/log(1/t) (perturbation averages) and of
I(t)/log(1/t) (isoperimetric defects) must vanish for an extremizer.
"""

import numpy as np

from qcreg import (
    BeltramiField,
    QuadratureConfig,
    affine_map,
    defect_weight_integral,
    empirical_holder,
    epsilon_weight_integral,
    extremality_report,
    geometry_profile,
    radial_stretch,
    spiral_map,
    stretch_factor,
    superlevel_lower_density,
    validate_field,
)

cfg = QuadratureConfig()
radii = np.geomspace(1e-3, 1.0, 33)


def diagnose(name, entry):
    field = validate_field(entry.map.beltrami)
    K = field.distortion_ratio
    geo = geometry_profile(entry.map, radii, cfg)
    eps = epsilon_weight_integral(field, K, geo.radii, cfg)  # the profile's radii
    defect = defect_weight_integral(geo)
    estimates = empirical_holder(geo)  # from the profile's areas at its radii below 1
    verdict = extremality_report(eps, defect, estimates)
    t, alpha_area = estimates[0]
    print(f"{name} (K = {K:.4f}):")
    print(f"  min ratio-W = {verdict.min_ratio_w:.3e}, min ratio-I = {verdict.min_ratio_i:.3e}")
    print(f"  exponent estimate at t = {t:g} from the image area: {alpha_area:.4f} "
          f"(1/K = {1/K:.4f})")
    print(f"  verdict: {verdict.verdict}")
    print()


print("=== the stretch itself: every diagnostic sits at zero ===")
diagnose("radial_stretch(K=2)", radial_stretch(2.0))

print("=== affine map: constant defect keeps ratio-I away from zero ===")
diagnose("affine(1, 1/3)", affine_map(1.0, 1 / 3))

print("=== rotation map: perturbation average bounded below ===")
diagnose("spiral(gamma=1)", spiral_map(1.0))

print("=== a hand-built perturbation of the stretch coefficient ===")
k = stretch_factor(2.0)
perturbed = BeltramiField(
    mu=lambda z: (z / np.conj(z)) * (-k + 0.1), k_max=k, singular_points=(0j,)
)
eps = epsilon_weight_integral(perturbed, 2.0, radii, cfg)
print("constant offset 0.1 -> ratio-W pins its size:",
      f"{eps.ratio_w[0]:.6f} at the smallest scale")

print()
print("=== super-level density of a dyadic-block defect pattern ===")
r = np.geomspace(2.0**-16, 1.0, 1024)
level = np.floor(-np.log2(r)).astype(int)
delta = np.where((level % 2 == 0) & (level > 0), 0.1, 0.0)
gammas = [2.0 ** -(2 * j + 1) for j in range(1, 5)]
density = superlevel_lower_density(zip(r, delta), 0.05, gammas)
print(f"blocks occupy 1/3 of every scale [0, 2^-(2k+1)]: estimated density {density:.4f}")
print("(an extremizer would force this to zero as the scales shrink)")
