"""Exact integration by the projection method, against the direct solver.

The invariant flow generated by the quadratic trace invariant is solved in
closed form upstairs (a one-parameter subgroup orbit) and projected back to
the chamber by re-diagonalization.  Two experiments:

1. hyperbolic Sutherland two-body scattering on sl(2,C): the projected
   trajectory is compared with the adaptive direct integrator through the
   collision, and the outgoing motion is checked to be asymptotically free;
2. a spinful su(2,1) run, where the two integrators must agree in (q, p)
   and in every gauge-invariant monitor.
"""

import numpy as np

from spincal import algebra, dynamics, orbits
from spincal.algebra import SpaceSpec
from spincal.orbits import OrbitSpec

print("=== hyperbolic Sutherland scattering (sl(2,C), kappa = 1) ===")
sl2 = algebra.build_space(SpaceSpec.sl(2))
xi = orbits.xi_red(sl2, "kks", 1.0)
pt0 = dynamics.make_phase_point(sl2, np.array([0.7, -0.7]), np.array([-0.45, 0.45]), xi)
H = dynamics.hamiltonian(sl2, pt0)
print(f"energy {H:.10f} (incoming speed {abs(pt0.p[0]):.2f}, repulsive core)")

traj = dynamics.integrate_direct(sl2, pt0, 14.0, tol=1e-10, sample_dt=2.0)
print("\n   t     q1 (direct)  q1 (projection)   |diff|")
worst = 0.0
for i, t in enumerate(traj.times):
    out = dynamics.flow_projection(sl2, pt0, float(t)) if t else pt0
    d = np.abs(out.q - traj.path.q[i]).max()
    worst = max(worst, d)
    print(f"{t:5.1f}   {traj.path.q[i, 0]:+.8f}   {out.q[0]:+.8f}    {d:.2e}")
p_out = traj.path.p[-1]
print(f"\nworst q deviation: {worst:.2e}")
print(f"outgoing momenta {np.round(p_out, 8)}: kinetic energy "
      f"{0.5 * p_out @ p_out:.10f} vs H = {H:.10f} (potential fully released)")

print("\n=== spinful cross-integrator check (su(2,1), BC orbit data) ===")
su21 = algebra.build_space(SpaceSpec.su(2, 1))
xi = orbits.xi_red(su21, "bc", 1.0, 0.3)
pt0 = dynamics.make_phase_point(su21, np.array([0.8]), np.array([-0.25]), xi)
times = np.linspace(0.0, 5.0, 11)
direct = dynamics.integrate_direct(su21, pt0, 5.0, tol=1e-10, sample_dt=0.5,
                                   lax_x=(0.0, 1.0))
proj = dynamics.projection_trajectory(su21, pt0, times, lax_x=(0.0, 1.0))
dq = np.abs(direct.path.q - proj.path.q).max()
dp = np.abs(direct.path.p - proj.path.p).max()
dE = np.abs(direct.energy - proj.energy).max()
ds = max(np.abs(direct.lax_spectra[x] - proj.lax_spectra[x]).max() for x in (0.0, 1.0))
print(f"q agreement {dq:.2e}, p agreement {dp:.2e}")
print(f"energy agreement {dE:.2e}, Lax-spectra agreement {ds:.2e}")
