"""Coadjoint orbits, the momentum map and the gauge slice.

Shows the rank-one orbit representatives, samples on-slice spin data for a
space with genuine (positive-dimensional) internal degrees of freedom,
verifies that the momentum map vanishes on slice points, and runs the two
orbit-classification probes: the single-point reduction of the BC-type
orbit and the emptiness of the slice for the shifted size-n orbit.
"""

import numpy as np

from spincal import algebra, orbits
from spincal.algebra import SpaceSpec
from spincal.orbits import OrbitSpec

rng = np.random.default_rng(7)

print("minimal orbit representative eta(u) for u = (sqrt(2), 0), kappa = 1:")
print(orbits.eta_of_u(np.array([np.sqrt(2.0), 0.0]), 1.0))
print("\ntorus normal form i kappa (1 - I) for k = 3, kappa = 0.5: the KKS spin")
print("xi_red(sl(3,C), 'kks', 0.5), built by slice_spin from u = sqrt(kappa) (1, 1, 1):")
print(orbits.xi_red(algebra.build_space(SpaceSpec.sl(3)), "kks", 0.5).xi)

# --- generic spin data on su(2,2) --------------------------------------
space = algebra.build_space(SpaceSpec.su(2, 2))
spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
print(f"\n=== slice sampling on {space.label()} ===")
worst = 0.0
for _ in range(50):
    xi = orbits.random_slice_spin(space, spec, rng)
    q = algebra.random_chamber_point(space, rng)
    p = rng.standard_normal(2)
    up = orbits.build_slice_point(space, q, p, xi)
    worst = max(worst, float(np.linalg.norm(orbits.moment_map(space, up))))
print(f"momentum-map norm over 50 slice draws: worst {worst:.2e}")

xi = orbits.random_slice_spin(space, spec, rng)
print("one sampled spin point, M-perp coefficients by basis label:")
for label, c in zip(space.e_labels, xi.coeffs):
    if abs(c) > 1e-12:
        print(f"  {label:12s} {c:+.6f}")

# --- single-point reduction (the spinless mechanism) --------------------
print("\n=== BC-type orbit on su(3,2): reduction to a single point ===")
su32 = algebra.build_space(SpaceSpec.su(3, 2))
report = orbits.reduce_orbit_check(su32, kappa=3.0, x=1.0, rng=rng, n_samples=32)
print(f"diagonal-constraint residual: {report.diag_constraint_residual:.2e}")
print(f"torus normal-form residual:   {report.normal_form_residual:.2e}")
print(f"match with stored xi_red:     {report.xi_match_residual:.2e}")
print(f"single point reached: {report.passed}")

g, g1, g2 = orbits.bc_couplings(2, 3.0, 1.0)
print(f"couplings g = {g:.6f}, g1 = {g1:.6f}, g2 = {g2:.6f}; "
      f"relation residual {abs(g1**2 - 2*g**2 + np.sqrt(2)*g*g2):.2e}")

print("\n=== shifted size-n orbit misses the slice entirely (x != 0) ===")
margin = orbits.emptiness_probe(su32, kappa=1.0, x=0.5, rng=rng, n_samples=4000)
print(f"minimum M-part norm over 4000 orbit samples: {margin:.4f} (> 0)")
