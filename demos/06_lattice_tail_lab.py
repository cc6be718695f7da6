"""An infinite-variance conservative transformation built on the integers.

Discretizing the symmetric law with tail mass x^-2 onto the integer
lattice (splitting each cell's mass between its endpoints so the mean
stays exactly zero) gives an atomic measure sigma with slowly varying
smoothed variance ~ 2 log x.  The half-plane map built from sigma has a
boundary restriction with poles at the integers; its norming constants
grow like sqrt(n log n), so the reciprocal squares sum like log log N --
divergent, hence the map is conservative, even though no finite
variance exists.
"""

import math

import numpy as np

import monoclt as mc
from monoclt import clt, ergodic as eg

lab = eg.lattice_tail_lab(10_000, N=100_000)

print(f"sigma: {len(lab.sigma)} atoms, total mass {lab.sigma.total_mass:.6f}, "
      f"truncation defect {lab.mass_defect:.1e}")
print(f"mean(sigma) = {mc.moments(lab.sigma).mean:+.1e} (exactly centered binning)")
i1 = np.searchsorted(lab.sigma.positions, 1.0)
print(f"mass at +-1: {lab.sigma.masses[i1]:.6f} (= 3/16 each)")

print("\nsmoothed truncated variance tracks 2 log x:")
for x in (10.0, 100.0, 1000.0):
    L = mc.harmonic_variance(lab.sigma, x)
    print(f"  x={x:>6}: L = {L:8.4f}   2 log x = {2*math.log(x):8.4f}")

print("\nnorming constants: closed form vs the ratio-selection rule")
ns = [100, 1000, 10_000]
Bsel = clt.sigma_criterion_constants(lab.sigma, ns)
for n, bsel in zip(ns, Bsel.values):
    print(f"  n={n:<6} sqrt(n log n) = {math.sqrt(n*math.log(n)):8.2f}   "
          f"selected = {bsel:8.2f}")
rr = clt.norming_ratio_check(lab.sigma, Bsel, y=1.0)
print(f"  selection-rule ratios r_n: all equal 1 to {rr.tail_max_dev:.1e}")

print("\nconservativity: partial sums of 1/B_n^2 and the growth-model fit")
rep = eg.conservativity_criterion(lab.sigma, 100_000, B=lab.B)
for N in (1000, 10_000, 100_000):
    i = np.searchsorted(rep.ns, N)
    print(f"  N={N:<7} sum = {rep.partial_sums[min(i, len(rep.ns)-1)]:.4f}   "
          f"log log N = {math.log(math.log(N)):.4f}")
print(f"  verdict: {rep.verdict}")
print(f"  (a finite-variance comparison diverges faster, like log N)")

print("\nboundary restriction: poles at the nonzero integers")
print(f"  T has {lab.T.n_poles} poles, additive constant c = {lab.T.c:+.1e}")
small = eg.lattice_tail_lab(50)
rng = np.random.default_rng(2)
dev = eg.preservation_check(small.T, rng.normal(0, 3, 25))
print(f"  preservation identity deviation (K=50 truncation): {dev:.1e}")
